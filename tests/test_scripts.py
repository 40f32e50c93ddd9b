"""The three scripts under scripts/, each run in-process as __main__."""

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args) -> int:
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *map(str, args)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return done.value.code


def test_render_figures_writes_the_gallery(monkeypatch, tmp_path):
    assert run_script(monkeypatch, "render_figures.py", tmp_path / "figures") == 0
    written = sorted(p.name for p in (tmp_path / "figures").iterdir())
    assert written == ["ao2_7.svg", "ao3_7_shell.off", "star_2_6.svg", "star_3_6_cube.off"]
    for path in (tmp_path / "figures").iterdir():
        head = "<svg" if path.suffix == ".svg" else "OFF\n"
        assert path.read_text().startswith(head)


def test_inspect_shells_prints_the_ao3_7_shell(monkeypatch, capsys):
    assert run_script(monkeypatch, "inspect_shells.py", 7) == 0
    lines = capsys.readouterr().out.splitlines()
    shells = [line for line in lines if line.startswith("ao3(7) cell ")]
    assert len(shells) == 1 and shells[0].endswith(", 10 vertices")


def bench_pairs():
    """The functions of scripts/bench_pairs.py, without running it."""
    return runpy.run_path(str(SCRIPTS / "bench_pairs.py"))


def test_bench_pairs_summary_arithmetic():
    summarise = bench_pairs()["summarise"]
    base, change = [10.0, 20.0, 30.0, 40.0], [12.0, 18.0, 33.0, 44.0]
    higher = summarise(base, change, "higher")
    assert higher["ratios"] == pytest.approx([1.2, 0.9, 1.1, 1.1])
    assert higher["ratio_median"] == pytest.approx(1.1)
    assert higher["base"] == pytest.approx((12.5, 25.0, 37.5))      # statistics.quantiles
    assert higher["change"] == pytest.approx((13.5, 25.5, 41.25))
    assert (higher["wins"], higher["pairs"]) == (3, 4)
    assert not higher["gap_exceeds_base_iqr"]                       # 0.5 against 25
    assert summarise(base, change, "lower")["wins"] == 1
    clear = summarise([10.0, 11.0, 12.0, 13.0], [20.0, 21.0, 22.0, 23.0], "higher")
    assert clear["gap_exceeds_base_iqr"] and clear["wins"] == 4


def test_bench_pairs_parses_seed_lists():
    parse_seeds = bench_pairs()["parse_seeds"]
    assert parse_seeds("1-3,7") == [1, 2, 3, 7]
    with pytest.raises(ValueError):
        parse_seeds("-1")


def test_bench_pairs_alternates_which_side_starts():
    pair_order = bench_pairs()["pair_order"]
    base, change = Path("base"), Path("change")
    starts = [pair_order(index, base, change) for index in range(4)]
    assert [[side for side, _ in pair] for pair in starts] == [
        ["base", "change"], ["change", "base"], ["base", "change"], ["change", "base"]]
    assert all(dict(pair) == {"base": base, "change": change} for pair in starts)


def test_bench_pairs_refuses_a_tree_without_the_package(monkeypatch, tmp_path, capsys):
    repo = SCRIPTS.parent
    assert run_script(monkeypatch, "bench_pairs.py", tmp_path, repo) == 2
    assert f"{tmp_path} has no src/arrangement_lab" in capsys.readouterr().err


def test_bench_pairs_gain_verdict():
    summarise = bench_pairs()["summarise"]
    base = [100.0 + i for i in range(10)]                  # IQR 5.5
    nine = [110.0 + i for i in range(9)] + [100.0]         # 9/10 wins
    assert summarise(base, nine, "higher")["gain_holds"]
    eight = [110.0 + i for i in range(8)] + [100.0, 101.0]
    assert not summarise(base, eight, "higher")["gain_holds"]        # 8/10 wins
    close = [b + 1.0 for b in base]                                  # 10/10, gap 1
    assert not summarise(base, close, "higher")["gain_holds"]
    assert summarise(base, [b - 20.0 for b in base], "lower")["gain_holds"]
    assert not summarise(base, nine, "lower")["gain_holds"]


def test_bench_pairs_bound_verdict():
    summarise = bench_pairs()["summarise"]
    base = [1.0, 1.0, 1.0, 1.0]
    assert summarise(base, [1.3] * 4, "lower", 0.25)["worse_than_bound"]
    assert not summarise(base, [1.2] * 4, "lower", 0.25)["worse_than_bound"]
    assert summarise(base, [0.7] * 4, "higher", 0.25)["worse_than_bound"]
    assert not summarise(base, [0.8] * 4, "higher", 0.25)["worse_than_bound"]
    assert not summarise(base, [0.5] * 4, "lower", 0.25)["worse_than_bound"]   # better
    assert summarise(base, [1.3] * 4, "lower")["worse_than_bound"] is None


def test_bench_pairs_runs_each_side_for_the_benchmark_run_length(tmp_path):
    # pairs at another length than the benchmark's own runs measure another spread
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    for tree in ("base", "change"):
        (tmp_path / tree / "src" / "arrangement_lab").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    main = bench_pairs()["main"]
    asked = []

    def fake_run(tree, workload, seed, seconds):
        asked.append(seconds)
        return {metric["name"]: 1.0 for metric in spec["end_to_end"]}

    main.__globals__["run_one"] = fake_run
    argv = [str(tmp_path / "base"), str(tmp_path / "change"), "--seeds", "1-2"]
    assert main(argv) == 0
    assert len(asked) == 2 * 2 * len(spec["workloads"])
    assert set(asked) == {spec["run_seconds"]} == {45}
    asked.clear()
    assert main([*argv, "--seconds", "3"]) == 0
    assert set(asked) == {3.0}
