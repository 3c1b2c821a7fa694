"""Layering guards: the package modules import each other along one fixed
graph, only three functions touch files, ``optics`` cannot tell a film table
from an analytic film, and no module keeps a stale name: an import it never
reads, an ``__all__`` entry it does not define, or an ``__all__`` entry that
no module of the program reads (test-only helpers live in ``oracles``).

A new import between modules has to edit ``LAYERS`` on purpose, and a new
file read or write has to edit ``FILE_IO_OWNERS``.
"""

import ast
import importlib
from pathlib import Path

import plasmon_biphoton

# module -> the package modules it imports (``__init__`` left out)
LAYERS = {
    "jones": set(),
    "film": set(),
    "optics": {"film"},
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
                  "film.load_tabulated"}


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


def test_optics_does_not_know_the_film_kind():
    # every film is point-group symmetric, so the aperture transform has one
    # path; a ``tabulated`` attribute or an ``isinstance`` test on the film
    # would let it fork on the kind again
    path = Path(plasmon_biphoton.__file__).parent / "optics.py"
    assert not [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute) and node.attr == "tabulated"
                or isinstance(node, ast.Name) and node.id == "isinstance"]


def package_modules():
    """(path, imported module) of every module of the package, ``__init__`` included."""
    src = Path(plasmon_biphoton.__file__).parent
    for path in sorted(src.glob("*.py")):
        name = "" if path.stem == "__init__" else f".{path.stem}"
        yield path, importlib.import_module(f"plasmon_biphoton{name}")


def unread_imports(path):
    """Names the module at ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_import_is_read_or_exported():
    # an API deletion that leaves its import behind fails here
    stale = {path.stem: sorted(unread_imports(path) - set(getattr(module, "__all__", ())))
             for path, module in package_modules()}
    assert {stem: names for stem, names in stale.items() if names} == {}


def test_every_export_resolves():
    missing = {path.stem: [name for name in getattr(module, "__all__", ())
                           if not hasattr(module, name)]
               for path, module in package_modules()}
    assert {stem: names for stem, names in missing.items() if names} == {}


# exports that are user API without a caller in the program: the README
# documents ``serialize_config`` for dumping a config
USER_API = {"serialize_config"}


def test_every_export_is_read_by_the_program():
    # an export only tests read belongs in ``oracles``, not in the package
    read = set()
    for path, _ in package_modules():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {path.stem: sorted(set(getattr(module, "__all__", ())) - read - USER_API)
              for path, module in package_modules()}
    assert {stem: names for stem, names in unread.items() if names} == {}
