"""The three scripts under scripts/, each run in-process as __main__."""

import hashlib
import runpy
import sys
from pathlib import Path

import pytest

from test_golden_outputs import SUMMARY_DIGEST

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name, *args) -> int:
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / name), *map(str, args)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return done.value.code


def test_run_verification_writes_the_pinned_summary(monkeypatch, tmp_path):
    out = tmp_path / "summary.json"
    assert run_script(monkeypatch, "run_verification.py", out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUMMARY_DIGEST


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
