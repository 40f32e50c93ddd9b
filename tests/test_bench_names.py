"""The benchmark's tracer wraps library functions by name, so renaming or
deleting one breaks the traced bench run.  These tests read
perfbench/tracer.py without importing or changing anything there, and fail
on such a change before the traced run does."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from arrangement_lab import verify

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_constant(name: str):
    """The literal value the tracer assigns to a module-level name."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py assigns no {name}")


TRACED = [entry[:2] for entry in _tracer_constant("SPANNED") + _tracer_constant("LEAVES")]


@pytest.mark.parametrize("module, function", TRACED, ids=[".".join(pair) for pair in TRACED])
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"arrangement_lab.{module}"), function))


def test_construction_census_binds_the_five_key_fields():
    # the tracer pads each call's arguments to these five to key the cache
    parameters = inspect.signature(verify.construction_census).parameters
    assert list(parameters) == ["family", "d", "n", "seed", "bound"]
