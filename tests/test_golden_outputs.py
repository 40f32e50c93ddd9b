"""Byte-identity guard: canonical outputs of documented instances are pinned.

Each digest is the SHA-256 of a file the command line writes.  A kernel
rewrite must reproduce every byte; a digest changes only with an intended
change to an output format.
"""

import hashlib

import pytest

from arrangement_lab.cli import main

# (input file, the command that writes it)
INPUTS = {
    "ao2-7": ["construct", "--family", "ao2", "-n", "7"],
    "ao2-6": ["construct", "--family", "ao2", "-n", "6"],
    "ao3-6": ["construct", "--family", "ao3", "-n", "6"],
    "cyclic-3-6": ["construct", "--family", "cyclic", "-d", "3", "-n", "6"],
    "random-2-6-1": ["random", "-d", "2", "-n", "6", "--seed", "1"],
    "random-3-7-2": ["random", "-d", "3", "-n", "7", "--seed", "2"],
    "cyclic-4-7": ["construct", "--family", "cyclic", "-d", "4", "-n", "7"],
}

CENSUS_DIGESTS = {
    "ao2-7": "062630eb7ecf81311dc7ad8ff29b8ee29b4861f29214bae223150651661a64e9",
    "ao3-6": "cdcbc3c407cf252e11631ea8957294bc547117255fe4c05f43928da6d5c41db7",
    "cyclic-3-6": "cfbe289ac34ccd74b3b1c3a66cae329bd1b17e3fee2222e79ae3d83ee0c04186",
    "random-2-6-1": "851028ac072324c95f65f6f81bd3ee437003169619ad0fc1c734dd2170f09d65",
    # a random 3D f_bounded/f_external, and the null face fields for d >= 4
    "random-3-7-2": "77d5b1bd9af6da9ff19d9a7a71ceb3bba35caad5eb252a8536a7e60b4f19a0d5",
    "cyclic-4-7": "e33fec8bde53bf3201a582fd8c8ccf1b573ff1f03c96c12363e7071d39bd0399",
}

SVG_DIGEST = ("ao2-6", "43aa6986c504dbaa0fd5d4ffd470c4da76af901b064b9d21d5ceac34b8c952c5")
OFF_CELL = "+++++-"  # the 6-facet shell
OFF_DIGEST = ("ao3-6", "5fedf4362628826401401234085c619c46e258a075b5c070c179e193fd9ae1db")
SUMMARY_DIGEST = "7312f99cf0b5c63dfbbdc091932928faf65e923fd9fc354de6d1cf2ec6ea273c"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _input(tmp_path, name):
    path = tmp_path / f"{name}.json"
    assert main([*INPUTS[name], "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("name", sorted(CENSUS_DIGESTS))
def test_census_json_with_cells_is_pinned(tmp_path, name):
    report = tmp_path / f"{name}.census.json"
    assert main(["analyze", str(_input(tmp_path, name)), "--report", str(report), "--cells"]) == 0
    assert _sha256(report) == CENSUS_DIGESTS[name]


def test_svg_is_pinned(tmp_path):
    name, digest = SVG_DIGEST
    out = tmp_path / "figure.svg"
    assert main(["export", str(_input(tmp_path, name)), "--format", "svg", "--out", str(out)]) == 0
    assert _sha256(out) == digest


def test_off_cell_is_pinned(tmp_path):
    name, digest = OFF_DIGEST
    out = tmp_path / "cell.off"
    assert main(["export", str(_input(tmp_path, name)), "--format", "off",
                 f"--cell={OFF_CELL}", "--out", str(out)]) == 0
    assert _sha256(out) == digest


def test_verify_summary_is_pinned(tmp_path):
    out = tmp_path / "summary.json"
    assert main(["verify", "--prop", "all", "--out", str(out)]) == 0
    assert _sha256(out) == SUMMARY_DIGEST
