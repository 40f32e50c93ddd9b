"""The README's library tour runs, and every value its comments state holds.

An expression line's value is stated in its own comment (before any
" == " gloss) or, when that is empty, in the comment line below it.  Values
are compared as Python literals, so the class counts compare as a dict.
"""

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def tour_block() -> str:
    section = README.read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def stated_values(block: str) -> list[tuple[str, object]]:
    lines = block.splitlines()
    stated = []
    for i, line in enumerate(lines):
        code, _, comment = line.partition("#")
        body = ast.parse(code.strip()).body
        if len(body) != 1 or not isinstance(body[0], ast.Expr):
            continue
        if not comment.strip():
            comment = lines[i + 1].partition("#")[2]
        stated.append((code.strip(), ast.literal_eval(comment.split(" == ")[0].strip())))
    return stated


def test_library_tour_values_hold():
    block = tour_block()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    stated = stated_values(block)
    assert [value for _, value in stated] == [
        15, "26/15", {"polygon-3": 5, "polygon-4": 9, "polygon-7": 1}
    ]
    for expression, value in stated:
        assert eval(expression, namespace) == value, expression
