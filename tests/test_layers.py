"""Layering guards: the package modules import each other along one fixed
graph, and only four functions touch files.

A new import between modules has to edit ``LAYERS`` on purpose, and a new
file read or write has to edit ``FILE_IO_OWNERS``.
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


# calls that open, make, read or write a file or directory
FILE_IO = {"open", "mkdir", "read_text", "write_text", "write_bytes", "loadtxt", "savetxt"}
# the only functions that make them: runners compute, run_scenario writes
FILE_IO_OWNERS = {"scenarios.run_scenario", "scenarios.parse_config_file",
                  "film.load_tabulated", "film.save_tabulated"}


def file_io_callers(path):
    """Top-level functions and classes of the module at ``path`` that make a FILE_IO call."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in FILE_IO:
                    found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return found


def test_only_the_owners_touch_files():
    src = Path(plasmon_biphoton.__file__).parent
    assert set().union(*map(file_io_callers, src.glob("*.py"))) == FILE_IO_OWNERS
