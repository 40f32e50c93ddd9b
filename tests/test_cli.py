"""Command-line surface: flows, exit codes, byte-identical artifacts."""

import ast
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from arrangement_lab.arrangement import (
    Arrangement,
    check_simple,
    enumerate_edges,
    enumerate_vertices,
    hyperplane,
    signature_from_str,
    signature_str,
)
from arrangement_lab.census import census
from arrangement_lab import cli, constructions, export, verify
from arrangement_lab.cli import main
from arrangement_lab.constructions import (
    build_ao2,
    build_ao3,
    build_cyclic_star,
    random_simple_arrangement,
)
from arrangement_lab.export import diameter_color, render_off, render_svg
from arrangement_lab.errors import InputError, UnsupportedDimensionError
from arrangement_lab.jsonio import (
    atomic_write_text,
    canonical_dumps,
    census_to_obj,
    load_arrangement,
)
from arrangement_lab.verify import RANDOM_2D_POOL, RANDOM_3D_POOL
from oracle_vertices import check_simple_by_fractions
from test_golden_outputs import SUMMARY_DIGEST


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


@pytest.mark.parametrize("args, message", [
    (["--family", "ao2", "-d", 3, "-n", 6], "ao2 is 2-dimensional"),
    (["--family", "ao3", "-d", 2, "-n", 6], "ao3 is 3-dimensional"),
    (["--family", "cyclic", "-n", 6], "cyclic construction requires -d"),
])
def test_construct_refuses_a_dimension_the_family_lacks(tmp_path, capsys, args, message):
    out = tmp_path / "x.json"
    assert run(["construct", *args, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("args, line", [
    (["construct", "--family", "ao2", "-n", 7], "ao2: n=7 d=2 epsilon=1/5"),
    (["construct", "--family", "cyclic", "-d", 4, "-n", 9], "cyclic: n=9 d=4 epsilon=1/5"),
    (["random", "-d", 3, "-n", 7, "--seed", 0], "random: n=7 d=3 seed=0 bound=100"),
    (["random", "-d", 2, "-n", 5, "--seed", 3, "--bound", 10], "random: n=5 d=2 seed=3 bound=10"),
], ids=["ao2", "cyclic", "random", "random-bound"])
def test_construct_and_random_print_one_pinned_line(tmp_path, capsys, args, line):
    out = tmp_path / "a.json"
    assert run([*args, "--out", out]) == 0
    assert capsys.readouterr() == (f"{line} -> {out}\n", "")


def test_construct_and_random_share_one_handler():
    parser = cli._build_parser()
    construct = parser.parse_args(["construct", "--family", "ao2", "-n", "5", "--out", "x"])
    random_ = parser.parse_args(["random", "-d", "2", "-n", "5", "--seed", "0", "--out", "x"])
    assert cli._COMMANDS["construct"] is cli._COMMANDS["random"]
    assert (construct.seed, construct.bound, random_.family) == (None, None, "random")
    assert construct.max_vertices == random_.max_vertices == cli.DEFAULT_MAX_VERTICES


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
    # the library's simplicity check names the same triple, 0-based
    assert check_simple(load_arrangement(str(bad))[0]).witness == (1, 2, 3)


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


@pytest.mark.parametrize("chunk", ["n 4..5", "-n=4..5"], ids=["space", "dashes"])
def test_verify_range_takes_only_key_value_chunks(capsys, chunk):
    # the "=" form, so that argparse passes "-n=4..5" on as the value
    assert run(["verify", "--prop", "P1", f"--range={chunk}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed range chunk {chunk!r}")


def test_verify_range_rejected_for_hirsch(capsys):
    assert run(["verify", "--prop", "H", "--range", "n=4..5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --range does not apply to H or S")


@pytest.mark.parametrize("prop, spec", [("P1", "d=2..3"), ("P5", "n=4..5")])
def test_verify_range_key_the_proposition_does_not_take(prop, spec, capsys):
    assert run(["verify", "--prop", prop, "--range", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --range key '{spec[0]}' does not apply to {prop}")


def test_verify_range_that_leaves_no_instance(capsys):
    assert run(["verify", "--prop", "P6", "--range", "n=3"]) == 2
    captured = capsys.readouterr()
    assert "all pass" not in captured.out
    assert captured.err.startswith("error: --range leaves the P6 grid empty")


@pytest.mark.parametrize("prop, spec, message", [
    ("P1", "n=-3..5", "P1 requires n >= 4"),
    ("P5", "d=-1", "P5 requires d >= 2"),
    ("P6", "d=-1,n=3", "P6 requires d >= 2 and n >= 2d"),
])
def test_verify_bad_range_point_exits_with_the_check_condition(monkeypatch, capsys, prop,
                                                               spec, message):
    # the parameters are checked before the size budget or any census sees them
    censused = []
    monkeypatch.setattr(verify, "construction_census", lambda *key: censused.append(key))
    assert run(["verify", "--prop", prop, "--range", spec]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert censused == []


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


@pytest.mark.parametrize(
    "entry, shown",
    [([5.7, 3], "d2 pool n must be a JSON integer, got 5.7"),
     ([5, True], "d2 pool seed must be a JSON integer, got True")],
    ids=["fractional-pool-entry", "boolean-pool-entry"],
)
def test_verify_seeds_must_be_json_integers(tmp_path, capsys, entry, shown):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": [entry]}))
    assert run(["verify", "--prop", "P2", "--range", "n=5..5", "--seeds", seeds]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read seeds file") and shown in err


@pytest.mark.parametrize(
    "pools, prop, message",
    [({"d2": [[2, 0]]}, "P2", "random pool d2 entry n=2 seed=0: needs n >= 3"),
     ({"d3": [[3, 0]]}, "all", "random pool d3 entry n=3 seed=0: needs n >= 4"),
     ({"d2": [[5, -1]]}, "H", "random pool d2 entry n=5 seed=-1: seeds lie in [0, 2^64)"),
     ({"d3": [[5, 2**64]]}, "P4",
      f"random pool d3 entry n=5 seed={2**64}: seeds lie in [0, 2^64)")],
    ids=["d2-P2", "d3-all", "negative-seed", "seed-2-to-the-64"],
)
def test_verify_refuses_a_bad_pool_entry_before_any_census(tmp_path, monkeypatch, capsys,
                                                          pools, prop, message):
    def no_census(*key):
        raise AssertionError(f"census of {key} before the pools were checked")

    monkeypatch.setattr(verify, "construction_census", no_census)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(pools))
    assert run(["verify", "--prop", prop, "--seeds", seeds]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # both entry points of the plan refuse the pool before their first row
    by_dim = {**verify.RANDOM_POOLS, **{int(key[1:]): pool for key, pool in pools.items()}}
    with pytest.raises(InputError, match=re.escape(message)):
        next(verify.suite_instances([prop], None, by_dim))
    with pytest.raises(InputError, match=re.escape(message)):
        verify.run_suite([prop], None, by_dim)


@pytest.mark.parametrize(
    "dim, first_a, shown",
    [(2, [0.1, 0], "got 0.1"),
     (2, [True, 0], "got True"),
     (2.5, ["1", "0"], '"dim" must be a JSON integer, got 2.5'),
     # an exponent would build a 3.3-million-bit integer before anything else
     (2, ["1e1000000", "0"], "not a rational literal: '1e1000000'"),
     (2, ["0.5", "0"], "not a rational literal: '0.5'"),
     (2, ["1_000", "0"], "not a rational literal: '1_000'"),
     # a long value is named by its start and length, on one short line
     (2, ["1" * 5000, "0"], f"not a rational literal: {'1' * 20!r}... (5000 characters)\n"),
     (2, ["0." + "1" * 5000, "0"], "... (5002 characters)\n"),
     # a refused non-string too, by the start and length of its repr
     (2, [list(range(3000)), "0"], "got [0, 1, 2, 3, 4, 5, 6... (16890 characters)\n")],
    ids=["float-coefficient", "boolean-coefficient", "fractional-dim", "exponent-string",
         "decimal-string", "underscore-string", "over-the-digit-limit", "long-decimal",
         "long-array-coefficient"],
)
def test_analyze_reads_only_exact_numbers(tmp_path, capsys, dim, first_a, shown):
    path = tmp_path / "inexact.json"
    path.write_text(json.dumps({
        "dim": dim,
        "hyperplanes": [
            {"a": first_a, "b": "0"},
            {"a": ["0", "1"], "b": "0"},
            {"a": ["1", "1"], "b": "1"},
        ],
    }))
    assert run(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed arrangement JSON") and shown in err
    assert err.count("\n") == 1 and len(err) < 160


@pytest.mark.parametrize("first_a", ["10", {"1": 0, "0": 5}, "1/2"],
                         ids=["string", "object", "quotient-string"])
def test_analyze_requires_a_json_array_of_coefficients(tmp_path, capsys, first_a):
    # a string or an object was read item by item: "10" as the line x_0 = 0
    # and {"1": 0, "0": 5} as its keys (1, 0)
    path = tmp_path / "not-an-array.json"
    path.write_text(json.dumps({
        "dim": 2,
        "hyperplanes": [
            {"a": ["0", "1"], "b": "0"},
            {"a": first_a, "b": 0},
            {"a": ["1", "1"], "b": "1"},
        ],
    }))
    assert run(["analyze", path]) == 2
    assert capsys.readouterr().err == (
        'error: malformed arrangement JSON: hyperplane 1: "a" must be a JSON array '
        "of coefficients\n")


@pytest.mark.parametrize("hyperplanes, message", [
    ([{"a": ["0", "1"], "b": "0"}, [["1", "0"], "0"]],
     'hyperplane 1: must be a JSON object with "a" and "b"'),
    ([{"a": ["0", "1"], "b": "0"}, {"a": ["1", "0"]}],
     'hyperplane 1: must be a JSON object with "a" and "b"'),
    ({"0": {"a": ["0", "1"], "b": "0"}}, '"hyperplanes" must be a JSON array'),
    ([{"a": ["0", "1"], "b": "0"}, {"a": [0, "0/7"], "b": "1"}],
     "hyperplane 1: hyperplane normal must be nonzero"),
    ([{"a": ["0", "1"], "b": "0"}, {"a": ["1", "1"], "b": "1"}, {"a": [1, 2, 3], "b": 0}],
     'hyperplane 2: "a" has 3 coefficients in a 2-dimensional arrangement'),
], ids=["row-as-array", "row-without-b", "hyperplanes-as-object", "zero-normal", "wrong-length"])
def test_analyze_names_the_malformed_hyperplane(tmp_path, monkeypatch, capsys, hyperplanes,
                                                message):
    def no_census(*args, **kwargs):
        raise AssertionError("census of a malformed arrangement")

    monkeypatch.setattr(cli, "census", no_census)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"dim": 2, "hyperplanes": hyperplanes}))
    assert run(["analyze", path]) == 2
    assert capsys.readouterr().err == f"error: malformed arrangement JSON: {message}\n"


def nested(depth):
    """`depth` lists, one inside the next, as JSON text."""
    return "[" * depth + "]" * depth


def arrangement_text(metadata):
    return (
        '{"dim": 2, "hyperplanes": [{"a": ["1", "0"], "b": "0"}, {"a": ["0", "1"], "b": "0"},'
        ' {"a": ["1", "1"], "b": "1"}], "metadata": ' + metadata + "}"
    )


@pytest.mark.parametrize("depth", [1_500, 100_000])
def test_analyze_refuses_json_nested_too_deep_before_any_census(tmp_path, monkeypatch,
                                                               capsys, depth):
    # Python 3.11's reader gives up near depth 990, 3.13's reads 1,500 and
    # `canonical_dumps` then ran out of stack writing the report
    def no_census(*args, **kwargs):
        raise AssertionError("census of a file nested too deep")

    monkeypatch.setattr(cli, "census", no_census)
    path, report = tmp_path / "deep.json", tmp_path / "census.json"
    path.write_text(arrangement_text(nested(depth)))
    assert run(["analyze", path, "--report", report]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read arrangement from {path}: containers nested more than 100 deep\n")
    assert not report.exists()


def test_analyze_reads_json_nested_to_the_limit(tmp_path, capsys):
    # the top-level object and 99 lists of metadata: 100 deep, written back
    # one level deeper in the report
    path, report = tmp_path / "deep.json", tmp_path / "census.json"
    path.write_text(arrangement_text(nested(99)))
    assert run(["analyze", path, "--report", report]) == 0
    assert json.loads(report.read_text())["metadata"] == json.loads(nested(99))
    path.write_text(arrangement_text(nested(100)))
    assert run(["analyze", path]) == 2
    assert "containers nested more than 100 deep" in capsys.readouterr().err


def test_verify_refuses_a_seeds_file_nested_too_deep(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(verify, "construction_census", lambda *key: 1 / 0)
    seeds = tmp_path / "seeds.json"
    seeds.write_text('{"d2": ' + nested(100_000) + "}")
    assert run(["verify", "--prop", "P2", "--seeds", seeds]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read seeds file {seeds}: containers nested more than 100 deep\n")


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
                "--cell", signature_str(cube_sig, arr.n)]) == 0
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


def test_export_svg_rejects_cell(tmp_path, capsys):
    src = tmp_path / "a.json"
    run(["construct", "--family", "ao2", "-n", 5, "--out", src])
    out = tmp_path / "no.svg"
    assert run(["export", src, "--format", "svg", "--out", out, "--cell", "+++++"]) == 2
    assert "--cell applies only to --format off" in capsys.readouterr().err
    assert not out.exists()


def test_export_off_requires_cell(tmp_path):
    src = tmp_path / "s.json"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])
    assert run(["export", src, "--format", "off", "--out", tmp_path / "no.off"]) == 2


def test_export_off_rejects_unbounded_and_unrealized_cells(tmp_path, capsys):
    src = tmp_path / "s36.json"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])
    arr, _ = load_arrangement(str(src))
    vertices = enumerate_vertices(arr)
    ray = next(e for e in enumerate_edges(arr, vertices) if e.head is None)
    # every side of a ray's line set is a cell, and the ray makes it unbounded
    unbounded = "".join("-" if s < 0 else "+" for s in ray.sign_vector)
    # below all three coordinate planes every slanted plane (positive
    # intercepts) is negative, so no cell has signs ---+++
    for cell in (unbounded, "---+++"):
        assert run(["export", src, "--format", "off", "--out", tmp_path / "no.off",
                    f"--cell={cell}"]) == 2
        assert f"{cell} is not a bounded cell" in capsys.readouterr().err
    assert not (tmp_path / "no.off").exists()


def test_export_off_refuses_a_cell_of_the_wrong_length_before_the_vertex_pass(
        tmp_path, monkeypatch, capsys):
    src = tmp_path / "s36.json"
    run(["construct", "--family", "cyclic", "-d", 3, "-n", 6, "--out", src])

    def no_vertex_pass(*_args):
        raise AssertionError("vertices enumerated before the cell's length was checked")

    monkeypatch.setattr(export, "enumerate_vertices", no_vertex_pass)
    assert run(["export", src, "--format", "off", "--out", tmp_path / "no.off",
                "--cell", "+-"]) == 2
    assert capsys.readouterr().err == "error: signature length 2 does not match n = 6\n"
    assert not (tmp_path / "no.off").exists()


def test_export_imports_no_census_verify_or_json_layer():
    # the figure exporter reads the vertex pass alone
    tree = ast.parse(Path(export.__file__).read_text())
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert imported & {"jsonio", "verify", "census"} == set()
    assert "arrangement" in imported


def test_importing_the_cli_leaves_dataclasses_unloaded():
    # every command pays its import: records are NamedTuples, so no class
    # body is generated and compiled, and `dataclasses` (with the `inspect`
    # it pulls in) stays unloaded; -S keeps site hooks out of the count
    code = ("import sys; before = 'dataclasses' in sys.modules; import arrangement_lab.cli; "
            "print(before, 'dataclasses' in sys.modules)")
    src = str(Path(cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "False False\n", "")


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


def test_analyze_cyclic_star_at_d_7(tmp_path, capsys):
    # d = 7, where the vertex pass's integers are largest: C(13,7) cells
    src = tmp_path / "cyclic7.json"
    assert run(["construct", "--family", "cyclic", "-d", 7, "-n", 14, "--out", src]) == 0
    capsys.readouterr()
    assert run(["analyze", src]) == 0
    assert " I=1716 " in capsys.readouterr().out


def test_signature_parsing():
    assert signature_from_str("+-+") == 0b101
    assert signature_from_str("--+-") == 0b0010
    with pytest.raises(InputError):
        signature_from_str("+0-")
    with pytest.raises(InputError):
        signature_from_str("")


def test_render_guards():
    with pytest.raises(UnsupportedDimensionError):
        render_svg(build_cyclic_star(3, 6).arrangement)
    with pytest.raises(UnsupportedDimensionError):
        render_off(build_ao2(5).arrangement, "+" * 5)
    with pytest.raises(InputError):
        render_off(build_cyclic_star(3, 6).arrangement, "+++")  # wrong length


# a corner at 10^23 has more digits than a 28-digit decimal context holds
BIG_SIMPLEX = Arrangement(3, (
    hyperplane([1, 0, 0], 0), hyperplane([0, 1, 0], 0), hyperplane([0, 0, 1], 0),
    hyperplane([1, 1, 1], 10**23),
))


@pytest.mark.parametrize(
    "arr",
    [build_ao3(7).arrangement, random_simple_arrangement(3, 7, 1).arrangement, BIG_SIMPLEX],
    ids=["ao3-7", "random-3-7-1", "simplex-10^23"],
)
def test_off_export_writes_the_census_counts_of_every_cell(arr):
    for rec in census(arr).records:
        lines = render_off(arr, signature_str(rec.signature, arr.n)).splitlines()
        v, f, e = map(int, lines[1].split())
        faces = [[int(x) for x in line.split()] for line in lines[2 + v:]]
        assert (lines[0], v, e, f) == ("OFF", rec.vertex_count, rec.edge_count, rec.facet_count)
        assert len(faces) == f and all(face[0] == len(face) - 1 for face in faces)
        assert sum(face[0] for face in faces) == 2 * e
        assert sorted({i for face in faces for i in face[1:]}) == list(range(v))


# ---------------------------------------------------------------------------
# size budget: C(n,d) is checked before anything is enumerated
# ---------------------------------------------------------------------------

def test_analyze_refuses_an_instance_over_the_default_budget(tmp_path, capsys):
    out = tmp_path / "c840.json"
    # C(40,8)*2^8 cell-pass lookups need a budget of 153,809,370 vertices
    argv = ["construct", "--family", "cyclic", "-d", 8, "-n", 40, "--out", out]
    assert run([*argv, "--max-vertices", 153_809_370]) == 0
    capsys.readouterr()
    started = time.perf_counter()
    assert run(["analyze", out]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert "C(40,8) = 76904685" in err and "1000000" in err and str(out) in err


def test_verify_refuses_a_range_over_the_budget(capsys):
    started = time.perf_counter()
    assert run(["verify", "--prop", "P1", "--range", "n=4..2000"]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ao2 d=2 n=1415 has C(1415,2) = 1000405 vertices")


@pytest.mark.parametrize("prop, spec, refusal", [
    ("P1", f"n=4..{10**12}", "ao2 d=2 n=1415 has C(1415,"),
    ("P5", f"d=2..{10**12}", "cyclic d=20 n=22 has C(22,20)*2^20 = 242221056 cell-pass lookups"),
    ("P5", "d=2..30", "cyclic d=20 n=22 has C(22,20)*2^20 = 242221056 cell-pass lookups, above "
     "the limit of 128000000 (128 per vertex of the budget); raise it with --max-vertices\n"),
    ("P6", f"d=2..{10**12},n=4..{10**12}", "cyclic d=2 n=1415 has C(1415,"),
])
def test_verify_refuses_a_huge_range_at_its_first_oversized_instance(monkeypatch, capsys,
                                                                    prop, spec, refusal):
    # the grid is read lazily, so the size loop stops at the first instance
    # over the budget without listing the rest of the range
    def no_census(*key):
        raise AssertionError(f"census of {key} before the size check")

    monkeypatch.setattr(verify, "construction_census", no_census)
    started = time.perf_counter()
    assert run(["verify", "--prop", prop, "--range", spec]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(f"error: {refusal}")


def test_the_lookup_budget_admits_what_the_vertex_budget_admits_up_to_d_7():
    # 2^7 lookups per vertex of the budget: an instance with d <= 7 under the
    # vertex limit is never refused for its cell pass
    for limit in (20, 1000, cli.DEFAULT_MAX_VERTICES):
        for d in range(2, 8):
            n = d
            while comb(n + 1, d) <= limit:
                n += 1
            cli._check_size(f"d={d} n={n}", n, d, limit)
    cli._check_size("cyclic d=19 n=21", 21, 19, cli.DEFAULT_MAX_VERTICES)
    with pytest.raises(InputError, match="cell-pass lookups"):
        cli._check_size("cyclic d=20 n=22", 22, 20, cli.DEFAULT_MAX_VERTICES)


@pytest.fixture(scope="module")
def cyclic_20_22(tmp_path_factory):
    path = tmp_path_factory.mktemp("budget") / "cyclic-20-22.json"
    argv = ["construct", "--family", "cyclic", "-d", 20, "-n", 22, "--out", path]
    assert run([*argv, "--max-vertices", 2_000_000]) == 0
    return path


class CensusReached(Exception):
    pass


def test_analyze_refuses_a_cell_pass_over_the_budget(monkeypatch, capsys, cyclic_20_22):
    def no_census(arr, metadata=None):
        raise AssertionError("census before the size check")

    monkeypatch.setattr(cli, "census", no_census)
    assert run(["analyze", cyclic_20_22]) == 2
    assert capsys.readouterr().err == (
        f"error: {cyclic_20_22} has C(22,20)*2^20 = 242221056 cell-pass lookups, above the "
        "limit of 128000000 (128 per vertex of the budget); raise it with --max-vertices\n")


def test_max_vertices_raises_the_cell_pass_budget(monkeypatch, cyclic_20_22):
    # the census itself would take about 20 s, so a stub stands in for it
    def reached(arr, metadata=None):
        raise CensusReached(arr.dim, arr.n)

    monkeypatch.setattr(cli, "census", reached)
    with pytest.raises(CensusReached) as got:
        run(["analyze", cyclic_20_22, "--max-vertices", 2_000_000])
    assert got.value.args == (20, 22)


def test_construct_refuses_an_instance_over_the_budget_before_building(tmp_path, monkeypatch,
                                                                       capsys):
    # ao2 with n = 10^6 built for 30 s and wrote 107 MB that analyze refused
    def no_build(*args):
        raise AssertionError("a hyperplane was built before the size check")

    monkeypatch.setattr(cli, "build", no_build)
    out = tmp_path / "a.json"
    started = time.perf_counter()
    assert run(["construct", "--family", "ao2", "-n", 10**8, "--out", out]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == (
        "error: ao2 d=2 n=100000000 has C(100000000,2) = 4999999950000000 vertices, above the "
        "limit of 1000000; raise it with --max-vertices\n")
    assert not out.exists()


def test_max_vertices_raises_the_construct_budget(tmp_path, capsys):
    out = tmp_path / "c3-200.json"
    argv = ["construct", "--family", "cyclic", "-d", 3, "-n", 200, "--out", out]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: cyclic d=3 n=200 has C(200,3) = 1313400 vertices, above the limit of 1000000")
    assert not out.exists()
    assert run([*argv, "--max-vertices", 2_000_000]) == 0
    arr, meta = load_arrangement(str(out))
    assert (arr.dim, arr.n, meta["family"]) == (3, 200, "cyclic")


def test_verify_budget_covers_the_seeds_pools(tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": [[5, 3], [50, 1]]}))
    argv = ["verify", "--prop", "P2", "--range", "n=5..5", "--seeds", seeds]
    assert run([*argv, "--max-vertices", 1000]) == 2
    assert "random d=2 n=50 seed=1 has C(50,2) = 1225 vertices" in capsys.readouterr().err


def test_random_refuses_an_instance_over_the_budget(tmp_path, capsys):
    out = tmp_path / "r.json"
    started = time.perf_counter()
    assert run(["random", "-d", 2, "-n", 1500, "--seed", 0, "--out", out]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err.startswith(
        "error: random d=2 n=1500 seed=0 has C(1500,2) = 1124250 vertices, above the limit"
        " of 1000000")
    assert not out.exists()
    argv = ["random", "-d", 3, "-n", 7, "--seed", 0, "--out", out]
    assert run([*argv, "--max-vertices", 34]) == 2
    assert "C(7,3) = 35 vertices, above the limit of 34" in capsys.readouterr().err
    assert run([*argv, "--max-vertices", 35]) == 0
    # a bad n still gets the generator's own message, not the budget's
    assert run(["random", "-d", 2, "-n", -3, "--seed", 0, "--out", out]) == 2
    assert capsys.readouterr().err == "error: random arrangement requires n >= d+1 = 3\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_random_refuses_a_seed_outside_the_generator_range(tmp_path, capsys, seed):
    out = tmp_path / "r.json"
    assert run(["random", "-d", 2, "-n", 5, "--seed", seed, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: seed must lie in [0, 2^64), got {seed}\n"
    assert not out.exists()


def test_random_refuses_a_bound_whose_span_exceeds_the_generator(tmp_path, capsys):
    # a span 2*bound + 1 above 2^64 left no draw under the rejection limit,
    # so the generator looped for ever
    out = tmp_path / "r.json"
    argv = ["random", "-d", 2, "-n", 4, "--seed", 0, "--out", out]
    assert run([*argv, "--bound", 2**63]) == 2
    assert capsys.readouterr().err == (
        f"error: coefficient bound must be at most 2^63 - 1, got {2**63}\n")
    assert not out.exists()
    assert run([*argv, "--bound", 2**63 - 1]) == 0
    assert out.exists()


def test_random_that_runs_out_of_attempts_exits_2_naming_the_instance(tmp_path, capsys):
    # 86 lines with coefficients in [-10, 10] leave no room for an 87th
    out = tmp_path / "r.json"
    assert run(["random", "-d", 2, "-n", 150, "--seed", 0, "--bound", 10, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: random d=2 n=150 seed=0 bound=10: could not extend 86 hyperplanes to 87 "
        "after 1000 attempts\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_max_vertices_sets_the_budget(tmp_path, capsys, command):
    arr = tmp_path / "a27.json"
    run(["construct", "--family", "ao2", "-n", 7, "--out", arr])
    argv = [command, arr]
    if command == "export":
        argv += ["--format", "svg", "--out", tmp_path / "a27.svg"]
    assert run([*argv, "--max-vertices", 20]) == 2
    assert "C(7,2) = 21 vertices, above the limit of 20" in capsys.readouterr().err
    assert run([*argv, "--max-vertices", 21]) == 0


@pytest.mark.parametrize("command", ["construct", "analyze", "verify", "export"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, capsys, command, target):
    source = tmp_path / "ao2.json"
    assert run(["construct", "--family", "ao2", "-n", 5, "--out", source]) == 0
    out = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path / "taken"
    if target == "directory":
        out.mkdir()
    args = {
        "construct": ["construct", "--family", "ao2", "-n", 5, "--out", out],
        "analyze": ["analyze", source, "--report", out],
        "verify": ["verify", "--prop", "P1", "--range", "n=5", "--out", out],
        "export": ["export", source, "--format", "svg", "--out", out],
    }[command]
    capsys.readouterr()
    assert run(args) == 2
    assert f"error: cannot write {out}" in capsys.readouterr().err
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_verify_refuses_an_unwritable_out_before_any_census(tmp_path, monkeypatch, capsys,
                                                            target):
    out = tmp_path / "missing" / "out.json" if target == "missing-dir" else tmp_path / "taken"
    if target == "directory":
        out.mkdir()
    with pytest.raises(InputError) as written:
        atomic_write_text(str(out), "")
    censused = []
    monkeypatch.setattr(verify, "construction_census", lambda *key: censused.append(key))
    assert run(["verify", "--prop", "all", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {written.value}\n"
    assert captured.out == "" and censused == []
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("command", ["analyze", "export-svg", "export-off"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_analyze_and_export_refuse_an_unwritable_path_before_any_work(
        tmp_path, monkeypatch, capsys, command, target):
    family, cell = ("ao3", "+++++-") if command == "export-off" else ("ao2", None)
    source = tmp_path / f"{family}.json"
    assert run(["construct", "--family", family, "-n", 6, "--out", source]) == 0
    out = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path / "taken"
    if target == "directory":
        out.mkdir()

    def never(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    for name in ("census", "render_svg", "render_off"):
        monkeypatch.setattr(cli, name, never)
    args = {
        "analyze": ["analyze", source, "--cells", "--report", out],
        "export-svg": ["export", source, "--format", "svg", "--out", out],
        "export-off": ["export", source, "--format", "off", "--cell", cell, "--out", out],
    }[command]
    capsys.readouterr()
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""
    assert not list(tmp_path.rglob(".tmp-*"))


# ---------------------------------------------------------------------------
# random input in any dimension, under the same budget
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d, n", [(4, 7), (5, 8), (6, 9), (7, 10)])
def test_random_draws_simple_arrangements_in_any_dimension(tmp_path, capsys, d, n):
    first, again = tmp_path / "a.json", tmp_path / "b.json"
    for out in (first, again):
        assert run(["random", "-d", d, "-n", n, "--seed", 0, "--out", out]) == 0
    assert first.read_bytes() == again.read_bytes()
    arr, meta = load_arrangement(str(first))
    assert (arr.dim, arr.n, meta["family"], meta["seed"]) == (d, n, "random", 0)
    assert check_simple_by_fractions(arr).is_simple
    report = census(arr)   # raises NotSimpleError on a non-simple arrangement
    assert report.cell_count == comb(n - 1, d)
    assert report.f_bounded is None and report.f_external is None
    capsys.readouterr()
    assert run(["analyze", first]) == 0
    assert capsys.readouterr().out.startswith(f"n={n} d={d} I={comb(n - 1, d)} delta=")


@pytest.mark.parametrize("d", [1, 0, -1])
def test_random_refuses_a_dimension_below_2_with_the_generator_s_message(tmp_path, capsys, d):
    out = tmp_path / "r.json"
    assert run(["random", "-d", d, "-n", 5, "--seed", 0, "--out", out]) == 2
    assert capsys.readouterr().err == "error: random arrangement requires d >= 2\n"
    assert not out.exists()


def test_random_refuses_a_cell_pass_over_the_budget_before_drawing(tmp_path, monkeypatch,
                                                                   capsys):
    def no_draw(*args):
        raise AssertionError("random generation before the size check")

    monkeypatch.setattr(constructions, "random_simple_arrangement", no_draw)
    out = tmp_path / "r.json"
    assert run(["random", "-d", 20, "-n", 22, "--seed", 0, "--out", out]) == 2
    assert capsys.readouterr().err == (
        "error: random d=20 n=22 seed=0 has C(22,20)*2^20 = 242221056 cell-pass lookups, above "
        "the limit of 128000000 (128 per vertex of the budget); raise it with --max-vertices\n")
    assert not out.exists()


def test_verify_checks_a_d4_pool_in_s_but_not_in_h(tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d4": [[7, 0], [8, 1]]}))
    out = tmp_path / "s.json"
    assert run(["verify", "--prop", "H", "--prop", "S", "--seeds", seeds, "--out", out]) == 0
    summary = json.loads(out.read_text())
    by_prop = {r["prop"]: r for r in summary["results"]}
    default = verify.default_instances()
    assert by_prop["S"]["params"]["instances"] == len(default) + 2
    assert by_prop["H"]["params"]["instances"] == sum(key[1] in (2, 3) for key in default)
    assert summary["all_pass"] and by_prop["S"]["verdict"] == "pass"
    assert summary["random_pools"]["d4"] == [[7, 0], [8, 1]]
    assert summary["random_pools"]["d2"] == [[n, seed] for n, seed in RANDOM_2D_POOL]


def test_verify_with_the_default_pools_as_seeds_writes_the_pinned_summary(tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({f"d{d}": pool for d, pool in verify.RANDOM_POOLS.items()}))
    out = tmp_path / "s.json"
    assert run(["verify", "--prop", "all", "--seeds", seeds, "--out", out]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUMMARY_DIGEST


@pytest.mark.parametrize("key", ["d1", "d", "x2", "d02", "D3"])
def test_verify_refuses_a_pool_key_that_is_no_dimension(tmp_path, monkeypatch, capsys, key):
    monkeypatch.setattr(verify, "construction_census", lambda *key: 1 / 0)
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"d2": [[5, 3]], key: [[7, 0]]}))
    assert run(["verify", "--prop", "S", "--seeds", seeds]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read seeds file {seeds}: pool key {key!r} is not \"d<k>\" with k >= 2\n")
