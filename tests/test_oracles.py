"""The oracles in oracles.py must not share private code with the library
they check, so they may read only public names of tlimm."""

import ast
from pathlib import Path

import oracles


def private_uses(source: str) -> list[str]:
    """Every underscore-private name that the source reads as an attribute
    or imports from tlimm, with its line number."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tlimm"):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names
                  if name.startswith("_") and not name.endswith("__")]
    return found


def test_oracles_use_only_public_names():
    assert private_uses(Path(oracles.__file__).read_text()) == []


def test_private_uses_are_found():
    source = (
        "from tlimm import tl\n"
        "from tlimm.tl import _steps\n"
        "tl._matching(1, (1, 0))\n"
        "tl.theta((1,))._terms\n"
        "tl.__name__\n"
    )
    assert sorted(private_uses(source)) == [
        "line 2: _steps", "line 3: _matching", "line 4: _terms",
    ]
