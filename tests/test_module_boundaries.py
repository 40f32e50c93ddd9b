"""Each module of the package owns its private names: a helper that another
module needs is made public where it is defined, so a change to it edits
only that module and the modules that call it by its public name."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arrangement_lab"
MODULES = sorted(PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _borrowed(path: Path) -> list[str]:
    """`module -> source.name` for each private name that `path` takes from
    another module of the package, by import or as an attribute of a
    module it imports."""
    tree = ast.parse(path.read_text())
    borrowed, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            local = node.level > 0 or (node.module or "").split(".")[0] == "arrangement_lab"
            if not local:
                continue
            source = (node.module or "").removeprefix("arrangement_lab").lstrip(".")
            for alias in node.names:
                if source and _private(alias.name):
                    borrowed.append(f"{path.stem} -> {source}.{alias.name}")
                if not source:  # `from . import module`
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("arrangement_lab."):
                    modules[alias.asname or alias.name] = alias.name.split(".")[-1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            borrowed.append(f"{path.stem} -> {modules[node.value.id]}.{node.attr}")
    return borrowed


def test_the_package_has_modules_to_check():
    assert {"arrangement", "cells", "cli", "jsonio"} <= {path.stem for path in MODULES}


def test_no_module_takes_a_private_name_from_another():
    assert [entry for path in MODULES for entry in _borrowed(path)] == []


def test_the_check_sees_each_form_of_borrowing(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .arrangement import Arrangement, _face_edges\n"
        "from arrangement_lab.jsonio import _read_json as read\n"
        "from . import cells\n"
        "import arrangement_lab.verify as verify\n"
        "cells._broken, verify._plan, cells.face_edges, verify.__name__\n"
    )
    assert sorted(_borrowed(sample)) == [
        "sample -> arrangement._face_edges",
        "sample -> cells._broken",
        "sample -> jsonio._read_json",
        "sample -> verify._plan",
    ]
