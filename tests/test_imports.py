"""Every module-level import in fdkg is used by its module (no linter needed)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fdkg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    source = "import json\nimport math\nfrom os import path as p, sep\nprint(math.pi, sep)\n"
    assert unused_imports(source) == ["line 1: json", "line 3: p"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
