"""Every module-level import in fdkg is used by its module, and every module-level
function or class has a caller in fdkg (no linter needed)."""

import ast
import os
import subprocess
import sys
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


# reference code that only the tests call, kept as the oracles they compare against
UNCALLED_ALLOWED = {
    "mse_loss",  # the loss the finite-difference gradient checks differentiate
    "sample_user_channel",  # one user's paths, which the per-user stream checks compare with a dataset
}


def unreferenced_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """Undecorated module-level functions and classes of ``sources`` (module name ->
    source) that no module there names by a Name, an Attribute or an import alias."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [(module, name) for module, name in defined if name not in referenced]


def test_every_definition_has_a_caller_in_fdkg():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert [(m, name) for m, name in unreferenced_definitions(sources) if name not in UNCALLED_ALLOWED] == []


def test_importing_the_cli_loads_no_subprocess():
    # the benchmark times this import; the Adam loop's builder imports subprocess when it runs
    code = "import sys, fdkg.cli; print('subprocess' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
