"""Layering guard: the package modules import each other along one fixed graph.

A new import between modules has to edit ``LAYERS`` on purpose.
"""

import ast
from pathlib import Path

import plasmon_biphoton

# module -> the package modules it imports (``__init__`` left out)
LAYERS = {
    "jones": set(),
    "film": set(),
    "optics": {"film", "jones"},
    "quantum": {"jones"},
    "scenarios": {"film", "jones", "optics", "quantum"},
    "cli": {"film", "optics", "scenarios"},
}


def package_imports(path):
    """Package modules that the module at ``path`` imports relatively."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import module
                found.update(alias.name for alias in node.names)
    return found


def test_module_import_graph():
    src = Path(plasmon_biphoton.__file__).parent
    graph = {path.stem: package_imports(path)
             for path in sorted(src.glob("*.py")) if path.stem != "__init__"}
    assert graph == LAYERS
